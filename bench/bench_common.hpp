// Shared infrastructure for the paper-experiment drivers: dataset bundles
// (reads → overlaps → graphs → hierarchies, built once and reused by every
// configuration a driver sweeps), table formatting, and environment-variable
// scaling.
//
// Environment knobs:
//   FOCUS_BENCH_SCALE     genome-length multiplier (default 1.0)
//   FOCUS_BENCH_COVERAGE  sequencing depth (default 15)
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "align/overlapper.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/asm_build.hpp"
#include "core/assembler.hpp"
#include "graph/coarsen.hpp"
#include "graph/digraph.hpp"
#include "graph/hybrid.hpp"
#include "io/preprocess.hpp"
#include "sim/datasets.hpp"

namespace focus::bench {

inline double bench_scale(double fallback = 1.0) {
  const auto env = EnvSnapshot::capture();
  if (!env.bench_scale.has_value()) return fallback;
  return env::parse_double("FOCUS_BENCH_SCALE", *env.bench_scale);
}

inline double bench_coverage(double fallback = 15.0) {
  const auto env = EnvSnapshot::capture();
  if (!env.bench_coverage.has_value()) return fallback;
  return env::parse_double("FOCUS_BENCH_COVERAGE", *env.bench_coverage);
}

/// The pipeline configuration every experiment driver shares (mirrors the
/// paper's §VI-A setup: 50 bp minimum overlap, 90 % minimum identity).
inline core::FocusConfig bench_config() {
  core::FocusConfig cfg;
  cfg.overlap.k = 14;
  cfg.overlap.min_kmer_hits = 3;
  cfg.overlap.min_overlap = 50;
  cfg.overlap.min_identity = 0.90;
  cfg.overlap.subsets = 4;
  cfg.coarsen.min_nodes = 48;
  cfg.coarsen.max_levels = 10;
  return cfg;
}

/// Everything the experiment drivers need about one dataset, computed once.
struct DatasetBundle {
  sim::Dataset dataset;
  io::ReadSet reads;  // preprocessed (with reverse complements)
  std::vector<align::Overlap> overlaps;
  graph::Graph overlap_graph;          // G0
  graph::GraphHierarchy multilevel;    // {G0 … Gn}
  graph::HybridGraphSet hybrid;        // {G'0 … G'n}
  graph::Digraph read_graph;

  const graph::Graph& hybrid_graph() const {
    return hybrid.hierarchy.levels.front();
  }
};

/// Builds the bundle for dataset `index` (1..3). Progress goes to stderr so
/// stdout stays a clean table.
inline DatasetBundle prepare_dataset(int index) {
  Timer timer;
  DatasetBundle b;
  const core::FocusConfig cfg = bench_config();

  std::fprintf(stderr, "[prepare D%d] simulating reads (scale=%.2f cov=%.1f)\n",
               index, bench_scale(), bench_coverage());
  b.dataset = sim::make_dataset(index, bench_scale(), bench_coverage());

  std::fprintf(stderr, "[prepare D%d] preprocessing %zu reads\n", index,
               b.dataset.data.reads.size());
  b.reads = io::preprocess(b.dataset.data.reads, cfg.preprocess);

  std::fprintf(stderr, "[prepare D%d] aligning %zu reads (%u threads)\n",
               index, b.reads.size(),
               resolve_thread_count(cfg.overlap.threads));
  // The rank driver at one rank: byte-identical to find_overlaps_serial,
  // but its host pool (FOCUS_THREADS wide) lets bundle preparation scale
  // with the host.
  b.overlaps = align::find_overlaps_parallel(b.reads, cfg.overlap, 1).overlaps;

  std::fprintf(stderr, "[prepare D%d] building graphs (%zu overlaps)\n", index,
               b.overlaps.size());
  b.overlap_graph = graph::build_overlap_graph(b.reads.size(), b.overlaps);
  b.multilevel = graph::build_multilevel(b.overlap_graph, cfg.coarsen);
  b.read_graph = graph::build_read_digraph(b.reads.size(), b.overlaps);
  std::vector<std::uint32_t> lengths;
  lengths.reserve(b.reads.size());
  for (const auto& r : b.reads) {
    lengths.push_back(static_cast<std::uint32_t>(r.seq.size()));
  }
  b.hybrid = graph::build_hybrid(b.multilevel, b.read_graph, std::move(lengths));

  std::fprintf(stderr,
               "[prepare D%d] done in %.1fs: |V(G0)|=%zu |E(G0)|=%zu "
               "|V(G'0)|=%zu levels=%zu\n",
               index, timer.seconds(), b.overlap_graph.node_count(),
               b.overlap_graph.edge_count(), b.hybrid_graph().node_count(),
               b.multilevel.depth());
  return b;
}

/// Builds the assembly graph for distributed-algorithm experiments.
inline core::AsmBuildResult build_asm(const DatasetBundle& b) {
  return core::build_assembly_graph(b.hybrid, b.read_graph, b.reads);
}

// --- Table formatting -------------------------------------------------------

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%-*s", widths[i], cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace focus::bench
