// Fig. 6 — Distributed graph algorithms runtime.
//
//   $ ./fig6_distributed_algorithms [--smoke] [output.json]
//
// Paper: the distributed trimming pipeline (transitive reduction, dead-end
// trimming, bubble popping, containment removal) and the distributed graph
// traversal applied to the hybrid graphs of the three datasets under
// 8/16/32/64-way partitionings (one worker per partition). Trimming runtime
// falls steeply with more partitions; traversal is fast and roughly flat.
//
// Beyond the paper's table, the driver records a modeled_dist_scaling
// section: virtual-time makespans of the legacy master/worker protocol vs
// the symmetric protocol (DESIGN.md §7b: owner-computes trim, traverse under
// the rotating coordinator) at 1/2/4/8/16 mpr ranks over a fixed 32-way
// partitioning. The vtime task model is what exposes the scaling: the mpr
// ranks share one host, so their wall clock does not measure it. At every
// sweep point the symmetric run is checked byte-identical to the master run
// (graph, stats, paths) before its timing is reported; exit status is
// nonzero if any check fails, so the smoke invocation doubles as a ctest
// (label: perf-smoke). Default output: BENCH_dist_scaling.json.
#include "bench_common.hpp"

#include <cstring>

#include "dist/parallel.hpp"
#include "partition/mlpart.hpp"

namespace {

using namespace focus;

bool same_asm_graph(const dist::AsmGraph& a, const dist::AsmGraph& b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) {
    return false;
  }
  for (NodeId v = 0; v < a.node_count(); ++v) {
    if (a.node_live(v) != b.node_live(v)) return false;
  }
  for (dist::EdgeId e = 0; e < a.edge_count(); ++e) {
    if (a.edge(e).removed != b.edge(e).removed ||
        a.edge(e).verified != b.edge(e).verified ||
        a.edge(e).overlap != b.edge(e).overlap ||
        a.edge(e).identity != b.edge(e).identity) {
      return false;
    }
  }
  return true;
}

bool same_simplify_stats(const dist::SimplifyStats& a,
                         const dist::SimplifyStats& b) {
  return a.transitive_edges == b.transitive_edges &&
         a.false_edges == b.false_edges &&
         a.contained_nodes == b.contained_nodes &&
         a.verified_edges == b.verified_edges && a.tip_nodes == b.tip_nodes &&
         a.bubble_nodes == b.bubble_nodes;
}

struct ScalingPoint {
  int ranks = 0;
  double master_trim = 0.0;
  double master_traverse = 0.0;
  double sym_trim = 0.0;
  double sym_traverse = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace focus::bench;

  bool smoke = false;
  std::string out_path = "BENCH_dist_scaling.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  if (smoke) {
    // Tiny deterministic dataset so the perf-smoke ctest exercises every
    // code path (both protocols, all rank counts) in seconds.
    ::setenv("FOCUS_BENCH_SCALE", "0.15", 1);
    ::setenv("FOCUS_BENCH_COVERAGE", "6.0", 1);
  }

  print_header(
      "FIG. 6 — Distributed trimming and traversal runtime vs partition "
      "count (ranks = partitions)");

  std::vector<DatasetBundle> bundles;
  const int datasets = smoke ? 1 : sim::dataset_count();
  for (int d = 1; d <= datasets; ++d) {
    bundles.push_back(prepare_dataset(d));
  }

  const std::vector<int> widths{8, 10, 18, 20, 14};
  print_row({"Parts", "Dataset", "Trim vtime (s)", "Traverse vtime (s)",
             "Live nodes"},
            widths);

  for (const PartId k : {8, 16, 32, 64}) {
    for (auto& b : bundles) {
      // Partition the hybrid graph into k parts.
      partition::PartitionerConfig pcfg;
      pcfg.seed = 13;
      const auto parts =
          partition::partition_hierarchy(b.hybrid.hierarchy, k, pcfg);

      // Fresh assembly graph per configuration (trimming mutates it).
      auto built = build_asm(b);
      dist::SimplifyConfig scfg;
      const auto trim = dist::simplify_parallel(
          built.graph, parts.finest(), k, scfg, /*nranks=*/k);
      const auto trav = dist::traverse_parallel(built.graph, parts.finest(),
                                                k, /*nranks=*/k);
      print_row({std::to_string(k), b.dataset.name,
                 fmt(trim.run.makespan, 5), fmt(trav.run.makespan, 5),
                 std::to_string(built.graph.live_node_count())},
                widths);
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shape (paper): trimming runtime decreases steeply with more\n"
      "partitions (near-linear in workers); traversal needs very little time\n"
      "and stays roughly constant.\n");

  // --- modeled_dist_scaling: master vs symmetric protocol over mpr ranks ---
  const dist::DistConfig master_cfg{dist::DistProtocol::kMaster};
  const dist::DistConfig sym_cfg{dist::DistProtocol::kSymmetric};
  const PartId scaling_parts = 32;
  const std::vector<int> rank_sweep{1, 2, 4, 8, 16};
  bool all_identical = true;

  print_header(
      "Modeled protocol scaling — master vs symmetric owner-computes "
      "(32 partitions, vtime makespan)");
  const std::vector<int> swidths{10, 8, 13, 9, 13, 9, 14, 9, 14, 9};
  print_row({"Dataset", "Ranks", "M trim", "spdup", "S trim", "spdup",
             "M traverse", "spdup", "S traverse", "spdup"},
            swidths);

  std::vector<std::vector<ScalingPoint>> scaling(bundles.size());
  for (std::size_t d = 0; d < bundles.size(); ++d) {
    auto& b = bundles[d];
    partition::PartitionerConfig pcfg;
    pcfg.seed = 13;
    const auto parts =
        partition::partition_hierarchy(b.hybrid.hierarchy, scaling_parts, pcfg);
    for (const int nranks : rank_sweep) {
      ScalingPoint pt;
      pt.ranks = nranks;
      dist::SimplifyConfig scfg;

      auto m = build_asm(b);
      const auto m_trim =
          dist::simplify_parallel(m.graph, parts.finest(), scaling_parts, scfg,
                                  nranks, {}, 1, {}, {}, master_cfg);
      const auto m_trav =
          dist::traverse_parallel(m.graph, parts.finest(), scaling_parts,
                                  nranks, {}, 1, {}, {}, master_cfg);
      pt.master_trim = m_trim.run.makespan;
      pt.master_traverse = m_trav.run.makespan;

      auto s = build_asm(b);
      const auto s_trim =
          dist::simplify_parallel(s.graph, parts.finest(), scaling_parts, scfg,
                                  nranks, {}, 1, {}, {}, sym_cfg);
      const auto s_trav =
          dist::traverse_parallel(s.graph, parts.finest(), scaling_parts,
                                  nranks, {}, 1, {}, {}, sym_cfg);
      pt.sym_trim = s_trim.run.makespan;
      pt.sym_traverse = s_trav.run.makespan;

      // Identity gate: the symmetric protocol must reproduce the master
      // run's simplified graph, counters and traversal paths at this exact
      // rank count before its timing counts.
      all_identical &= same_asm_graph(s.graph, m.graph);
      all_identical &= same_simplify_stats(s_trim.stats, m_trim.stats);
      all_identical &= s_trav.paths == m_trav.paths;

      const auto& base = scaling[d].empty() ? pt : scaling[d].front();
      print_row({b.dataset.name, std::to_string(nranks),
                 fmt(pt.master_trim, 5), fmt(base.master_trim / pt.master_trim, 2) + "x",
                 fmt(pt.sym_trim, 5), fmt(base.sym_trim / pt.sym_trim, 2) + "x",
                 fmt(pt.master_traverse, 5),
                 fmt(base.master_traverse / pt.master_traverse, 2) + "x",
                 fmt(pt.sym_traverse, 5),
                 fmt(base.sym_traverse / pt.sym_traverse, 2) + "x"},
                swidths);
      scaling[d].push_back(pt);
    }
    std::printf("\n");
  }
  std::printf("symmetric output identical to master at every sweep point: %s\n",
              all_identical ? "yes" : "NO (BUG)");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[fig6] cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"dist_scaling\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"scale\": %.3f,\n", bench_scale());
  std::fprintf(f, "  \"coverage\": %.3f,\n", bench_coverage());
  std::fprintf(f, "  \"partitions\": %d,\n", static_cast<int>(scaling_parts));
  std::fprintf(f, "  \"identical_output\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"modeled_dist_scaling\": [\n");
  for (std::size_t d = 0; d < scaling.size(); ++d) {
    std::fprintf(f, "    {\"dataset\": \"%s\", \"points\": [\n",
                 bundles[d].dataset.name.c_str());
    for (std::size_t i = 0; i < scaling[d].size(); ++i) {
      const auto& pt = scaling[d][i];
      const auto& base = scaling[d].front();
      std::fprintf(
          f,
          "      {\"ranks\": %d, \"master_trim_makespan\": %.9f, "
          "\"master_trim_speedup\": %.3f, \"sym_trim_makespan\": %.9f, "
          "\"sym_trim_speedup\": %.3f, \"master_traverse_makespan\": %.9f, "
          "\"master_traverse_speedup\": %.3f, "
          "\"sym_traverse_makespan\": %.9f, "
          "\"sym_traverse_speedup\": %.3f}%s\n",
          pt.ranks, pt.master_trim, base.master_trim / pt.master_trim,
          pt.sym_trim, base.sym_trim / pt.sym_trim, pt.master_traverse,
          base.master_traverse / pt.master_traverse, pt.sym_traverse,
          base.sym_traverse / pt.sym_traverse,
          i + 1 < scaling[d].size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", d + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[fig6] wrote %s\n", out_path.c_str());

  return all_identical ? 0 : 1;
}
